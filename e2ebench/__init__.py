"""End-to-end benchmark of the contraction stack (see README.md)."""
