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
    gradient_box_attack,
    gradient_sign_attack,
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
    cascade_predict,
    compose_rates,
    detector_score,
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
from .featstats import (
    LayerStatVector,
    PcaBank,
    extremal_stats,
    fit_pca_bank,
    layer_feature_vector,
    pca_statistic,
    percentile_stats,
    spectral_report,
)
from .recovery import average_filter, recovery_eval
from .selfaware import (
    ErrorTable,
    OmegaCalibration,
    abstain_decide,
    calibrate_omega,
    selfaware_sweep,
)
from .tensor import ConvFilterBank, Tensor, conv2d, dense, maxpool, relu, softmax
from .victim import (
    Network,
    NetworkSpec,
    PredictionRecord,
    TrainConfig,
    default_victim_spec,
    layer_outputs,
    predict,
    prediction_census,
    train_victim,
)

__version__ = "0.1.0"
