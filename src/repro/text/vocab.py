"""Vocabulary for the neural encoder.

Maps tokens to integer ids with the special symbols BERT-style encoders
need: ``[PAD]``, ``[UNK]``, ``[CLS]``, ``[SEP]``, ``[MASK]``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"

SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)


class Vocab:
    """A token <-> id mapping with BERT-style special symbols.

    Build with :meth:`from_texts` or :meth:`from_tokens`; every vocabulary
    reserves ids 0-4 for the special tokens in :data:`SPECIAL_TOKENS`.
    """

    def __init__(self, tokens: Optional[Sequence[str]] = None):
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        for token in SPECIAL_TOKENS:
            self._add(token)
        for token in tokens or ():
            self._add(token)

    def _add(self, token: str) -> int:
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    # -- construction ---------------------------------------------------
    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocab":
        """Build from a flat token stream, most frequent tokens first."""
        return cls([token for token, _ in Counter(tokens).most_common()])

    @classmethod
    def from_texts(cls, texts: Iterable[str], tokenizer) -> "Vocab":
        """Build from raw texts using ``tokenizer`` (a ``str -> List[str]``)."""
        return cls.from_tokens(
            token for text in texts for token in tokenizer(text)
        )

    # -- lookups ---------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP_TOKEN]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK_TOKEN]

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        """Return the id of ``token``, or the UNK id if absent."""
        return self._token_to_id.get(token, self.unk_id)

    def token_of(self, idx: int) -> str:
        """Return the token string for ``idx``; raises IndexError if invalid."""
        return self._id_to_token[idx]

    def encode(self, tokens: Sequence[str]) -> List[int]:
        """Map a token sequence to ids (UNK for OOV)."""
        unk = self.unk_id
        table = self._token_to_id
        return [table.get(t, unk) for t in tokens]

    def decode(self, ids: Sequence[int]) -> List[str]:
        """Map ids back to token strings."""
        return [self._id_to_token[i] for i in ids]

    # -- persistence -----------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Serialize the vocabulary to a JSON file (written atomically)."""
        from repro.storage.atomic import atomic_write_json

        payload = {"tokens": self._id_to_token[len(SPECIAL_TOKENS):]}
        atomic_write_json(Path(path), payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Vocab":
        """Load a vocabulary previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        return cls(payload["tokens"])
