"""``python -m entwit`` runs the ``entwit`` command."""
from .cli import main

if __name__ == "__main__":
    main()
