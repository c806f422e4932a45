"""`python -m vdse`: the command-line interface."""
from vdse.cli import main

main()
