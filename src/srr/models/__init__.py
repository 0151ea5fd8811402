"""Model zoo: snapshot GCN, temporal GCN+GRU, day-feature baselines and the model
container; each name is imported from its own module, and the package exports none."""
