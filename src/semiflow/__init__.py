"""Architecture search by interacting particle dynamics on a graph of
network morphisms, with gradient training in the continuous directions.

The engine is single-threaded. Importing semiflow sets OPENBLAS_NUM_THREADS
to 1 before numpy loads, unless it is set already. No matrix here is large
enough for OpenBLAS to split, so its worker threads compute nothing, yet they
cost up to about 75 ms of set-up on a busy machine; and a long vector dot
(the gradient norm of a network with tens of thousands of parameters) can
round differently with more threads, which would make results depend on the
core count. Set OPENBLAS_NUM_THREADS in the environment to override the pin.
A process that imported numpy before semiflow keeps the thread count numpy
started with.
"""

import os as _os

# Must precede the first numpy import (.graph below loads it).
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    BadConfig,
    BadLabel,
    BadParams,
    BadPosition,
    ConstraintViolated,
    DimensionMismatch,
    Divergence,
    EmptyGraph,
    InputError,
    MissingFile,
    NonFiniteGradient,
    NonFiniteValue,
    NonIntegerLabel,
    NonPositiveWeight,
    OutOfPeriod,
    ParseError,
    RoundTimeout,
    ShapeMismatch,
    SplitTooSmall,
    UnknownNode,
)
from .graph import ArchGraph, complete_graph, star_graph
from .dynamics import (
    EXPECTED,
    FIRST_ORDER,
    SAMPLED,
    SECOND_ORDER,
    DynamicsParams,
    MoveLaw,
    MoveLaws,
    MutationResult,
    NodeState,
    ParticleEnsemble,
    apply_mutation,
    apply_mutation_with_flows,
    cosine_lr,
    energy,
    mutation_rates_first,
    mutation_rates_second,
    restart_check,
    seed_ensemble,
    stationary_oracle,
    train_step,
    update_potential,
)
from .objective import (
    BoundGroup,
    ObjectiveHandle,
    QuadraticObjective,
    ValTracker,
    clip_gradient,
    eval_val,
)
from .nn import (
    NetSpec,
    evaluate,
    flatten,
    forward,
    init_params,
    load_checkpoint,
    logits,
    loss_and_grad,
    loss_only,
    param_count,
    save_checkpoint,
    spec_digest,
    spec_from_descriptors,
    spec_to_descriptors,
    unflatten,
)
from .morphisms import (
    ALL_KINDS,
    Candidate,
    Constraints,
    Morphism,
    add_skip,
    build_local_graph,
    deepen,
    default_mix,
    draw_morphism,
    narrow,
    remove_layer,
    remove_skip,
    widen,
)
from .data import (
    BatchStream,
    Dataset,
    load_csv,
    make_blobs,
    spiral_arm,
    two_spirals,
)
from .recording import JsonlWriter, MetricsWriter, write_manifest
from .search import (
    GlobalClock,
    NetObjective,
    RoundStats,
    SearchConfig,
    SearchResult,
    dynamics_round,
    final_train,
    hill_climb_baseline,
    iters_per_epoch,
    pretrain,
    run_round,
    run_search,
)
from .config import (
    SCHEMA,
    build_dataset,
    build_search_config,
    default_config,
    load_config,
    normalize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
