"""Cost-aware adaptive routing over text, image, and fusion table-reasoning
paths: a trainable gating MLP, pluggable expert backends, a fusion agent,
and the measurement protocols around them."""

__version__ = "0.1.0"
