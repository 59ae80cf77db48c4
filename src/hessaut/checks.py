"""Certification that holds under `python -O`.

Constructors certify the facts they rely on that no `hessaut verify`
check reports; the suites certify the rest. A false fact raises
CertificationError, which the CLI reports as a failed run.
"""


class CertificationError(Exception):
    """A certified fact does not hold."""


def certify(ok, message: str) -> None:
    """Raise CertificationError(message) unless ok."""
    if not ok:
        raise CertificationError(message)
