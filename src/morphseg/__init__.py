"""Unsupervised morph discovery and evaluation.

Two segmentation methods over raw word corpora: an online recursive MDL
segmenter built on a hierarchical chunk store, and a batch Viterbi-EM
maximum-likelihood segmenter. Discovered segmentations are scored against
reference morphological analyses through an EM-refined alignment distance.
Each name is imported from the module that defines it, for instance
``from morphseg.ml import train_em``.
"""

__version__ = "0.1.0"
