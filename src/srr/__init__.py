"""Systemic-risk radar: rolling-correlation market graphs and crash early warning.

The toolkit turns a panel of daily prices into a sequence of correlation
graphs, trains graph (GCN) and temporal (GCN+GRU) classifiers alongside
logistic-regression and random-forest baselines to flag upcoming drawdowns,
and scores everything with chronological, leakage-free evaluation.
"""

__version__ = "0.1.0"
