"""Adversarial-image detection from convolutional filter-output statistics.

Train a small CNN victim, attack it three ways, summarize each conv layer's
output by normalized projection coefficients plus extrema and percentiles,
chain per-layer linear classifiers into an early-exit cascade, decide when to
abstain, and recover flagged images with a small average filter.
"""

from .attacks import (
    AdversarialRecord,
    AttackConfig,
    evolutionary_attack,
)
from .autograd import (
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReluLayer,
    SoftmaxLayer,
    backward_pass,
    forward_pass,
    softmax_cross_entropy,
)
from .cascade import (
    CascadeConfig,
    CascadeModel,
    CascadeStage,
    LinearSvm,
    calibrate_threshold,
    compose_rates,
    roc_auc,
    train_cascade,
    train_svm,
)
from .dataio import (
    Dataset,
    load_dataset,
    load_detector,
    load_idx,
    load_network,
    save_dataset,
    save_detector,
    save_network,
    synth_dataset,
)
from .errors import CascadeGuardError, FormatError, TrainingError, ValidationError
from .featstats import PcaBank, fit_pca_bank, spectral_report
from .recovery import average_filter, recovery_eval
from .selfaware import (
    ErrorTable,
    OmegaCalibration,
    abstain_decide,
    calibrate_omega,
    selfaware_sweep,
)
from .tensor import Tensor
from .victim import (
    Network,
    NetworkSpec,
    TrainConfig,
    default_victim_spec,
    prediction_census,
    train_victim,
)

__version__ = "0.1.0"
