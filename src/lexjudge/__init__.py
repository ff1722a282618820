"""lexjudge: legal judgment prediction from lexicon-traced clues.

The pipeline extracts motivation/action/harm clues from judgment
documents, learns contrastively trained case representations over hashed
clue features, enhances instrument-label representations through an
attention network over the judgment reasoning graph, and predicts
imprisonment / charge / article labels by dot-product similarity.
"""

from .base import BaseEstimator
from .checkpoint import build_checkpoint, load_checkpoint, save_checkpoint
from .clues import (
    AreaTemplate,
    ClueSet,
    ClueTracer,
    Lexicon,
    MatchResult,
    Provenance,
    SectionAnchors,
    SectionMap,
    extract_clues,
    fuzzy_score,
    levenshtein,
    load_lexicon,
    locate_search_area,
    match_element,
    segment_sections,
    trace_sections,
)
from .contrastive import (
    ContrastiveConfig,
    contrastive_objective,
    train_contrastive,
)
from .corpus import (
    Corpus,
    CriminalCase,
    JudgmentLabels,
    LabelVocab,
    ScenarioKind,
    ScenarioSpec,
    SplitSpec,
    Task,
    TASKS,
    filter_scenario,
    load_corpus,
    split,
)
from .encoder import (
    DropoutSpec,
    EmbeddingTable,
    HashedEncoderParams,
    apply_dropout_noise,
    encode_fact,
    featurize,
    load_embedding_table,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    LexjudgeError,
    NotFittedError,
)
from .graph import (
    FactNode,
    GatParams,
    LabelNode,
    LayerParams,
    ReasoningGraph,
    attention_export,
    build_graph,
    gat_forward,
    init_features,
)
from .metrics import ClassMetrics, MetricsReport, ablation_table, confusion, report
from .model import JudgmentClassifier
from .predictor import predict_label, predict_proba, score_case
from .trainer import (
    AdamState,
    FittedModel,
    TrainConfig,
    adam_step,
    case_clues,
    evaluate_model,
    fit_model,
    predict_records,
    run_pipeline,
)

__version__ = "0.1.0"
