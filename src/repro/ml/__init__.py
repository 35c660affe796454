"""Self-contained ML substrate (no sklearn/torch dependencies)."""

from .dbscan import DBSCAN, assign_noise_to_nearest
from .fanova import fanova_importance
from .forest import RandomForest, RegressionTree
from .lstm import LSTMAutoencoder, LSTMCell, QueryEmbedder
from .mlp import MLP, Adam, Dense
from .mutual_info import entropy, mutual_information, normalized_mutual_information
from .scaler import MinMaxScaler, StandardScaler
from .svm import LinearSVM, SVMClassifier
from .tokenizer import Vocabulary, tokenize_sql

__all__ = [
    "DBSCAN",
    "assign_noise_to_nearest",
    "SVMClassifier",
    "LinearSVM",
    "normalized_mutual_information",
    "mutual_information",
    "entropy",
    "StandardScaler",
    "MinMaxScaler",
    "MLP",
    "Dense",
    "Adam",
    "LSTMCell",
    "LSTMAutoencoder",
    "QueryEmbedder",
    "Vocabulary",
    "tokenize_sql",
    "RegressionTree",
    "RandomForest",
    "fanova_importance",
]
