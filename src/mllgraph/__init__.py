"""Multi-label classification with label-dependency embeddings.

The pipeline learns label embeddings from annotation co-occurrence
statistics, maps them through a stacked graph convolution into an
inter-dependent classifier matrix, and optionally sharpens sample
representations with a cluster-relabeled contrastive term.
"""
