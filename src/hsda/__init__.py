"""Handwriting dynamics classifier: pen-stream preprocessing, kinematic
features, dynamics-colored rendering, a hybrid-attention model with
multi-scale fusion, and the training/evaluation protocol around it."""
