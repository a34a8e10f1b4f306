"""Spiking recurrent networks with adaptive thresholds, trained by BPTT.

The package is organized around small, separately testable pieces:
single-neuron dynamics (srnn.neurons), surrogate spike derivatives
(srnn.surrogates), multi-layer assembly and forward traces
(srnn.network), the reverse-time training sweep with Adam and schedules
(srnn.training), independent gradient oracles (srnn.gradcheck), spike
encoders and decoders (srnn.codecs), operation and energy accounting
(srnn.accounting), synthetic tasks and file loaders (srnn.datasets), the
reader and writer of JSON files (srnn.jsondoc), and a command-line front
end (srnn.cli).
"""

from srnn.accounting import (
    ArchDescription,
    ArchEntry,
    CostReport,
    FiringRates,
    ann_cost_per_step,
    cost_report,
    efficiency_ratio,
    energy_per_step,
    firing_rate,
    snn_cost_per_step,
    sop_count,
)
from srnn.codecs import (
    SpikeRaster,
    anytime_csv_text,
    anytime_curve,
    decode_membrane,
    decode_spike_count,
    encode_dataset,
    level_crossing_encode,
    sliding_window,
)
from srnn.datasets import (
    Dataset,
    gen_pattern_classification,
    gen_streaming_waveform,
    load_dataset,
    load_dense_csv,
    load_event_csv,
    load_idx,
    pattern_templates,
    save_dataset,
    save_dense_csv,
    save_event_csv,
    split,
)
from srnn.gradcheck import GradCheckReport, grad_check, tape_gradients
from srnn.network import (
    ForwardTrace,
    LayerSpec,
    Network,
    NetworkSpec,
    forward_sequence,
    forward_step,
    init_network,
    load_model,
    save_model,
)
from srnn.neurons import (
    AlifParams,
    AlifState,
    LifParams,
    LifState,
    alif_step,
    decay_coefficient,
    lif_step,
    readout_step,
    relu_step,
)
from srnn.surrogates import (
    Gaussian,
    Linear,
    MultiGaussian,
    SLayer,
    gaussian_grad,
    linear_grad,
    mg_grad,
    slayer_grad,
    surrogate_from_dict,
    surrogate_grad,
    surrogate_to_dict,
)
from srnn.training import (
    AdamState,
    EvalReport,
    GradientSet,
    LinearToZero,
    MetricsLog,
    StepDecay,
    TrainingConfig,
    adam_step,
    backward,
    evaluate,
    fit,
    loss_classification,
    loss_streaming,
    lr_at,
)

__version__ = "0.1.0"
