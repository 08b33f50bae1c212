"""Architecture search by interacting particle dynamics on a graph of
network morphisms, with gradient training in the continuous directions."""

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
    MissingFile,
    NoSolution,
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
    predict,
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
from .recording import JsonlWriter, MetricsWriter, read_manifest, write_manifest
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
