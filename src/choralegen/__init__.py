"""choralegen: LSTM sequence learner for piano-roll music.

Trains a from-scratch LSTM with resilient propagation on binary
piano rolls parsed from Standard MIDI Files, reconstructs and generates
music by iterated thresholded prediction, and scores predictions with
multi-label F1 and frame-level accuracy.
"""

__version__ = "0.1.0"
