"""Training, evaluation, checkpointing and verification utilities."""
