"""End-to-end benchmark with per-layer attribution (see README.md)."""
