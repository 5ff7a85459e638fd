"""Command line entry: python -m affine_mixer <task> --config cfg.json."""

from .cli import main

raise SystemExit(main())
