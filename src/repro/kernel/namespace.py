"""The patched user namespace (§4.3 of the paper).

Kishu patches the accessor, setter, and deletion methods of the kernel's
global namespace (Jupyter's ``user_ns``) to record which variable names each
cell execution touches. By Lemma 1 of the paper, a co-variable can only have
been updated by a cell if at least one of its member names was accessed, so
this access set is what lets the delta detector skip most of the state.

CPython executes module-level code (and ``LOAD_GLOBAL`` inside functions
defined in the cell) through the mapping protocol when the globals object is
a dict *subclass*, so overriding ``__getitem__`` / ``__setitem__`` /
``__delitem__`` here captures every name access made by cell code, including
from within user-defined functions — the property the paper's Remark in §4.3
relies on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Set

#: Names the kernel itself plants in the namespace; never reported as user
#: variables and never tracked as accesses.
KERNEL_INTERNAL_NAMES = frozenset(
    {"__builtins__", "__name__", "__doc__", "__loader__", "__spec__", "__package__"}
)


def is_user_variable(name: str) -> bool:
    """True for names that belong to the user's session state.

    Dunder names and kernel-internal names are infrastructure; single
    leading-underscore names are kept (users do create ``_tmp`` variables).
    """
    if name in KERNEL_INTERNAL_NAMES:
        return False
    return not (name.startswith("__") and name.endswith("__"))


class AccessRecord:
    """Accesses observed during one recording window (one cell execution)."""

    __slots__ = ("gets", "sets", "deletes")

    def __init__(self) -> None:
        self.gets: Set[str] = set()
        self.sets: Set[str] = set()
        self.deletes: Set[str] = set()

    @property
    def accessed(self) -> Set[str]:
        """All names touched in any way (Definition 3 of the paper)."""
        return self.gets | self.sets | self.deletes


class PatchedNamespace(dict):
    """A ``dict`` recording every get/set/delete of user variable names.

    Recording is windowed: the kernel calls :meth:`begin_recording` in its
    ``pre_run_cell`` phase and :meth:`end_recording` in ``post_run_cell``.
    Outside a window the namespace behaves as a plain dict (no overhead is
    billed to user code, matching Kishu's think-time design).
    """

    def __init__(self, initial: Dict[str, Any] = None) -> None:
        super().__init__(initial or {})
        self._record: AccessRecord = None
        self._recording = False

    # -- recording windows -------------------------------------------------

    def begin_recording(self) -> None:
        if self._recording:
            raise RuntimeError("recording window already open")
        self._record = AccessRecord()
        self._recording = True

    def end_recording(self) -> AccessRecord:
        if not self._recording:
            raise RuntimeError("no recording window open")
        record, self._record = self._record, None
        self._recording = False
        return record

    @property
    def recording(self) -> bool:
        return self._recording

    # -- mapping protocol ----------------------------------------------------

    def __getitem__(self, name):
        if self._recording and isinstance(name, str) and is_user_variable(name):
            self._record.gets.add(name)
        return super().__getitem__(name)

    def __setitem__(self, name, value) -> None:
        if self._recording and isinstance(name, str) and is_user_variable(name):
            self._record.sets.add(name)
        super().__setitem__(name, value)

    def __delitem__(self, name) -> None:
        if self._recording and isinstance(name, str) and is_user_variable(name):
            self._record.deletes.add(name)
        super().__delitem__(name)

    # ``dict.get`` does not route through ``__getitem__``; cell code rarely
    # calls it on globals, but Kishu itself must not perturb recording, so we
    # provide untracked internal accessors below instead of overriding it.

    # -- untracked access for the checkpointing system ------------------------

    def peek(self, name: str, default: Any = None) -> Any:
        """Read a variable without recording an access (Kishu-internal)."""
        return dict.get(self, name, default)

    def plant(self, name: str, value: Any) -> None:
        """Write a variable without recording an access (checkout path)."""
        dict.__setitem__(self, name, value)

    def uproot(self, name: str) -> None:
        """Delete a variable without recording an access (checkout path)."""
        if dict.__contains__(self, name):
            dict.__delitem__(self, name)

    def user_names(self) -> Set[str]:
        """Names of all user variables currently in the namespace."""
        return {name for name in dict.keys(self)
                if isinstance(name, str) and is_user_variable(name)}

    def user_items(self) -> Dict[str, Any]:
        """Snapshot mapping of user variable names to their objects."""
        return {name: dict.__getitem__(self, name) for name in self.user_names()}

    def replace_user_state(self, variables: Dict[str, Any]) -> None:
        """Replace all user variables with ``variables`` (full restore)."""
        for name in list(self.user_names()):
            dict.__delitem__(self, name)
        for name, value in variables.items():
            dict.__setitem__(self, name, value)


def filter_user_names(names: Iterable[str]) -> Set[str]:
    """Drop kernel-internal and dunder names from an access set."""
    return {name for name in names if is_user_variable(name)}
