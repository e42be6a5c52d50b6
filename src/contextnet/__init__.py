"""Contextual-embedding CTR models: feature pipeline, model, training, interpretability."""
