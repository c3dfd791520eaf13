"""choralegen: LSTM sequence learner for piano-roll music.

Trains a from-scratch LSTM with resilient propagation on binary
piano rolls parsed from Standard MIDI Files, reconstructs and generates
music by iterated thresholded prediction, and scores predictions with
multi-label F1 and frame-level accuracy.
"""

from .network import NetworkConfig, NetworkParams, forward_sequence, init_params
from .pianoroll import PianoRoll, QuantizationSpec, load_corpus, quantize
from .runner import GenerationConfig, TrainConfig, generate, reconstruct, train

__all__ = [
    "NetworkConfig", "NetworkParams", "forward_sequence", "init_params",
    "PianoRoll", "QuantizationSpec", "load_corpus", "quantize",
    "GenerationConfig", "TrainConfig", "generate", "reconstruct", "train",
]

__version__ = "0.1.0"
