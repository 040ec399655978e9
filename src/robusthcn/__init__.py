"""Goal-oriented dialog control models that stay predictable on OOD input.

The package covers the full desk-scale workflow: transcript parsing and
featurization, controlled OOD corpus augmentation, the HCN / HHCN / VHCN
model family on a small numpy autodiff core, turn-dropout training, and
the four-metric evaluation protocol.
"""

__version__ = "0.1.0"

from .augment import (
    AugmentationConfig,
    OodPool,
    SegmentPool,
    augment_corpus,
    augment_dialog,
    load_ood_pool,
    sample_ood_block,
)
from .corpus import (
    ActionSet,
    ContextFeatures,
    Dialog,
    Featurizer,
    Lexicon,
    OodLabel,
    Turn,
    TurnFeatures,
    Vocabulary,
    build_vocabulary,
    delexicalize,
    extract_action_set,
    featurize_dialog,
    parse_dialogs,
    prepare,
    write_dialogs,
)
from .evaluation import MetricsRow, evaluate_model, ood_f1, per_utterance_accuracy
from .models import Model, ModelConfig, dialog_loss, predict_dialog, predict_dialogs
from .toy import generate_toy_domain
from .train import GridCell, TrainConfig, grid_search, train_cells, train_model, word_dropout
from .turndrop import TurnDropoutConfig, apply_turn_dropout, synth_turn
