"""Reference implementations that newer code is checked against, one module per layer."""
