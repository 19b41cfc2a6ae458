"""Hamming SEC/DED — the traditional ECC the paper compares against.

The paper's reference EMT is an extended Hamming code with Single Error
Correction and Double Error Detection ([14] in the paper): for 16 data
bits, 5 Hamming check bits plus 1 overall parity bit, i.e. a (22,16) code
— ``2 + log2(16) = 6`` extra bits per word, all stored alongside the data
in the *faulty* voltage-scaled memory (unlike DREAM's side memory, the
check bits themselves are exposed to stuck-at faults; the code is designed
for exactly that).

Decoding semantics (double errors are reported, never "corrected"):

* syndrome 0, overall parity even — no error;
* syndrome 0, parity odd — the overall parity bit itself flipped, data OK;
* syndrome != 0, parity odd — single error at the syndrome position:
  flipped and fully corrected;
* syndrome != 0, parity even — double error: **detected but not
  corrected**; the decoder returns the raw (corrupted) data bits, which is
  why ECC SEC/DED underperforms DREAM below 0.55 V in Fig 4;
* three or more errors may alias onto any of the above, including silent
  miscorrection — the honest behaviour of real SEC/DED hardware.
"""

from __future__ import annotations

import numpy as np

from .._bitops import bit_mask, parity
from ..errors import EMTError
from .base import EMT, DecodeStats

__all__ = ["SecDedEMT", "hamming_check_bits"]


def hamming_check_bits(data_bits: int) -> int:
    """Number of Hamming check bits needed for ``data_bits`` payload bits.

    Smallest ``r`` with ``2**r >= data_bits + r + 1``.
    """
    if data_bits < 1:
        raise EMTError(f"data_bits must be positive, got {data_bits}")
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


class SecDedEMT(EMT):
    """Extended Hamming (n, k) SEC/DED code over ``data_bits`` payloads.

    Codeword layout (LSB first): bits ``[0, data_bits)`` carry the data,
    bits ``[data_bits, data_bits + r)`` the Hamming check bits, and the
    top bit the overall parity.  Internally each codeword bit index is
    assigned a *Hamming position* (1-based, check bits at powers of two)
    used for syndrome arithmetic; keeping the data bits contiguous in the
    stored word lets the fault-injection and significance analyses address
    data bit positions directly.

    Example:
        >>> import numpy as np
        >>> emt = SecDedEMT()
        >>> stored, _ = emt.encode(np.array([0x1234]))
        >>> int(emt.decode(stored ^ (1 << 7), None)[0])  # single fault
        4660
    """

    name = "secded"

    def __init__(self, data_bits: int = 16) -> None:
        super().__init__(data_bits)
        self.check_bits = hamming_check_bits(data_bits)
        self._build_code()

    # -- geometry ---------------------------------------------------------

    @property
    def stored_bits(self) -> int:
        """Data + Hamming check bits + overall parity (22 for 16 data bits)."""
        return self.data_bits + self.check_bits + 1

    # -- code construction --------------------------------------------------

    def _build_code(self) -> None:
        """Precompute encode/syndrome masks and the position-to-index map."""
        k, r = self.data_bits, self.check_bits
        n_positions = k + r  # Hamming positions 1..n_positions

        # Assign codeword bit indices to Hamming positions: data bits take
        # the non-power-of-two positions in increasing order, check bit j
        # takes position 2**j.
        position_of_data = []
        position = 1
        while len(position_of_data) < k:
            if position & (position - 1):  # not a power of two
                position_of_data.append(position)
            position += 1
        if position_of_data[-1] > n_positions:
            raise EMTError("Hamming construction overflow")  # pragma: no cover

        # encode mask for check bit j: data bits whose position has bit j.
        self._encode_masks = np.zeros(r, dtype=np.int64)
        for j in range(r):
            mask = 0
            for data_index, pos in enumerate(position_of_data):
                if (pos >> j) & 1:
                    mask |= 1 << data_index
            self._encode_masks[j] = mask

        # syndrome mask for bit j: codeword bit indices whose Hamming
        # position has bit j set (check bit 2**j participates in its own
        # syndrome bit).
        self._syndrome_masks = np.zeros(r, dtype=np.int64)
        for j in range(r):
            mask = 0
            for data_index, pos in enumerate(position_of_data):
                if (pos >> j) & 1:
                    mask |= 1 << data_index
            for check_index in range(r):
                if ((1 << check_index) >> j) & 1:
                    mask |= 1 << (k + check_index)
            self._syndrome_masks[j] = mask

        # Map a non-zero syndrome (Hamming position) back to the codeword
        # bit index; -1 marks positions outside the code (aliased
        # multi-error syndromes that must be treated as uncorrectable).
        pos_to_index = np.full(1 << r, -1, dtype=np.int64)
        for data_index, pos in enumerate(position_of_data):
            pos_to_index[pos] = data_index
        for check_index in range(r):
            pos_to_index[1 << check_index] = k + check_index
        self._pos_to_index = pos_to_index

        # Byte-folded lookup tables for the vectorised paths.  Parity is
        # linear over GF(2) — ``parity(a ^ b) == parity(a) ^ parity(b)``
        # — so the syndrome and overall-parity contributions of each
        # 8-bit chunk of a word fold independently and XOR together.
        # One gather + XOR per chunk replaces the per-check-bit
        # mask/popcount loop (bit-identical; the scalar reference paths
        # still run the direct parity-tree transcription and the test
        # suite pins the two together).
        # The encode fold's parity bit must cover the *codeword*: the
        # data chunk's own parity XOR the parity of the check bits that
        # chunk induces (parity distributes over XOR, so per-chunk
        # contributions compose).  The syndrome fold's parity bit covers
        # the received word alone.
        self._encode_luts = self._build_chunk_luts(
            n_bits=k, masks=self._encode_masks, fold_mask_parity=True
        )
        self._syndrome_luts = self._build_chunk_luts(
            n_bits=self.stored_bits,
            masks=self._syndrome_masks,
            fold_mask_parity=False,
        )

    def _build_chunk_luts(
        self, n_bits: int, masks: np.ndarray, fold_mask_parity: bool
    ) -> list[tuple[int, np.ndarray]]:
        """Per-byte-chunk tables of packed ``[parity | bits]`` words.

        Chunk table ``c`` maps a byte value ``v`` (bits ``[8c, 8c+8)``
        of the word) to ``r`` packed parity bits — bit ``j`` is the
        parity of the chunk against ``masks[j]`` — plus an overall
        parity contribution in bit ``r``: the chunk's own parity,
        additionally folded with the parity of its induced mask bits
        when ``fold_mask_parity`` is set.
        """
        r = masks.shape[0]
        luts: list[tuple[int, np.ndarray]] = []
        values = np.arange(256, dtype=np.int64)
        for shift in range(0, n_bits, 8):
            chunk_words = values << np.int64(shift)
            packed = np.zeros(256, dtype=np.int64)
            for j in range(r):
                bits = parity(np.bitwise_and(chunk_words, masks[j]))
                packed |= bits << np.int64(j)
            own = parity(chunk_words)
            if fold_mask_parity:
                own = np.bitwise_xor(own, parity(packed))
            packed |= own << np.int64(r)
            luts.append((shift, packed))
        return luts

    @staticmethod
    def _fold_chunks(
        words: np.ndarray, luts: list[tuple[int, np.ndarray]]
    ) -> np.ndarray:
        """XOR-fold the per-chunk packed parities of each word."""
        # Chunk 0 needs no shift: index the table with the low byte.
        packed = luts[0][1][np.bitwise_and(words, 0xFF)]
        for shift, lut in luts[1:]:
            packed = np.bitwise_xor(
                packed, lut[np.bitwise_and(words >> np.int64(shift), 0xFF)]
            )
        return packed

    # -- vectorised paths -------------------------------------------------

    def encode(
        self, payload: np.ndarray, checked: bool = False
    ) -> tuple[np.ndarray, None]:
        """Append Hamming check bits and the overall parity bit.

        One byte-LUT gather per data chunk folds all check bits and the
        overall parity at once (see :meth:`_build_chunk_luts`);
        bit-identical to the per-check-bit parity tree the scalar
        reference path still computes.
        """
        data = self._check_payload(payload, checked)
        packed = self._fold_chunks(data, self._encode_luts)
        check = np.bitwise_and(packed, bit_mask(self.check_bits))
        overall = packed >> np.int64(self.check_bits)
        codeword = np.bitwise_or(
            data,
            np.bitwise_or(
                check << np.int64(self.data_bits),
                overall << np.int64(self.stored_bits - 1),
            ),
        )
        return codeword, None

    def decode(
        self,
        stored: np.ndarray,
        side: np.ndarray | None,
        stats: DecodeStats | None = None,
        checked: bool = False,
    ) -> np.ndarray:
        """Syndrome decode with SEC/DED semantics (see module docstring)."""
        codeword = self._check_stored(stored, checked)

        packed = self._fold_chunks(codeword, self._syndrome_luts)
        syndrome = np.bitwise_and(packed, bit_mask(self.check_bits))
        overall_odd = (packed >> np.int64(self.check_bits)) == 1

        error_index = self._pos_to_index[syndrome]
        single_error = (syndrome != 0) & overall_odd & (error_index >= 0)

        # Flip the erroneous bit only where a correctable single error was
        # diagnosed; clip the index so the shift is always valid.
        flip = np.where(
            single_error,
            np.int64(1) << np.maximum(error_index, 0),
            np.int64(0),
        )
        corrected = np.bitwise_xor(codeword, flip)

        if stats is not None:
            stats.words += codeword.size
            # An error confined to the overall parity bit leaves the data
            # intact; it still counts as a repaired codeword.
            parity_bit_only = (syndrome == 0) & overall_odd
            stats.corrected += int(
                np.count_nonzero(single_error | parity_bit_only)
            )
            double_error = (syndrome != 0) & ~overall_odd
            aliased = (syndrome != 0) & overall_odd & (error_index < 0)
            stats.detected_uncorrectable += int(
                np.count_nonzero(double_error | aliased)
            )
        return np.bitwise_and(corrected, bit_mask(self.data_bits))

    # -- bit-serial reference ---------------------------------------------

    def encode_word(self, payload: int) -> tuple[int, int]:
        """Scalar reference encoder (direct parity-tree transcription)."""
        if not 0 <= payload <= bit_mask(self.data_bits):
            raise EMTError("payload out of range")
        codeword = payload
        for j in range(self.check_bits):
            masked = payload & int(self._encode_masks[j])
            check = bin(masked).count("1") & 1
            codeword |= check << (self.data_bits + j)
        overall = bin(codeword).count("1") & 1
        codeword |= overall << (self.stored_bits - 1)
        return codeword, 0

    def decode_word(self, stored: int, side: int) -> int:
        """Scalar reference decoder with SEC/DED semantics."""
        if not 0 <= stored <= bit_mask(self.stored_bits):
            raise EMTError("stored word out of range")
        syndrome = 0
        for j in range(self.check_bits):
            masked = stored & int(self._syndrome_masks[j])
            syndrome |= (bin(masked).count("1") & 1) << j
        overall_odd = bin(stored).count("1") & 1 == 1
        if syndrome != 0 and overall_odd:
            index = int(self._pos_to_index[syndrome])
            if index >= 0:
                stored ^= 1 << index
        return stored & bit_mask(self.data_bits)
