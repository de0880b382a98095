package value

import (
	"encoding/binary"
	"math"
)

// AppendKey appends a canonical byte encoding of v to dst. Two flat values
// (scalars, labels, and tuples thereof) have equal encodings iff
// Compare(a, b) == 0, with two exceptions. NaN compares equal to every
// number but encodes as its bit pattern. An int64 never shares an encoding
// with a float64, although Compare equates 1 and 1.0, which is why the
// compiler only hash-joins equalities whose sides share a type. -0.0 is
// encoded as +0.0. The encoding is prefix-free per value: each value is
// introduced by a one-byte tag, and variable-length payloads carry a length.
//
// Bags deliberately panic here: bags are never legal grouping, join, or
// partitioning keys (the paper restricts keys to flat types).
//
// hashKey mirrors this encoding byte for byte; change both together.
func AppendKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, 0x00)
	case bool:
		if x {
			return append(dst, 0x01, 1)
		}
		return append(dst, 0x01, 0)
	case int64:
		dst = append(dst, 0x02)
		return binary.BigEndian.AppendUint64(dst, uint64(x))
	case float64:
		dst = append(dst, 0x03)
		return binary.BigEndian.AppendUint64(dst, floatKeyBits(x))
	case Date:
		dst = append(dst, 0x04)
		return binary.BigEndian.AppendUint64(dst, uint64(x))
	case string:
		dst = append(dst, 0x05)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...)
	case Label:
		dst = append(dst, 0x06)
		dst = binary.BigEndian.AppendUint32(dst, uint32(x.Site))
		return AppendKey(dst, x.Payload)
	case Tuple:
		dst = append(dst, 0x07)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		for _, e := range x {
			dst = AppendKey(dst, e)
		}
		return dst
	default:
		panic("value: bags and unknown types cannot be keys")
	}
}

// floatKeyBits is the encoded bit pattern of a real: -0.0 folds into +0.0 so
// the two zeros, which Compare treats as equal, share a key.
func floatKeyBits(x float64) uint64 {
	if x == 0 {
		return 0
	}
	return math.Float64bits(x)
}

// Key returns the canonical string key of a flat value, suitable as a Go map
// key for grouping and joining.
func Key(v Value) string { return string(AppendKey(nil, v)) }

// AppendKeyCols appends the composite key of row projected on cols: the
// concatenation of the columns' AppendKey encodings. Hot paths encode into a
// reused buffer and look tables up with m[string(buf)], which does not
// allocate.
func AppendKeyCols(dst []byte, row Tuple, cols []int) []byte {
	for _, c := range cols {
		dst = AppendKey(dst, row[c])
	}
	return dst
}

// KeyCols returns the composite key of row projected on cols as a string.
func KeyCols(row Tuple, cols []int) string {
	return string(AppendKeyCols(nil, row, cols))
}

// FNV-1a parameters (hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 hashes a flat value with FNV-1a over its canonical encoding.
func Hash64(v Value) uint64 { return hashKey(fnvOffset64, v) }

// HashCols hashes the composite key of row projected on cols: FNV-1a over
// AppendKeyCols(nil, row, cols), computed without materializing the bytes.
func HashCols(row Tuple, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = hashKey(h, row[c])
	}
	return h
}

// hashKey folds the AppendKey encoding of v into the FNV-1a state h.
func hashKey(h uint64, v Value) uint64 {
	switch x := v.(type) {
	case nil:
		return hashByte(h, 0x00)
	case bool:
		h = hashByte(h, 0x01)
		if x {
			return hashByte(h, 1)
		}
		return hashByte(h, 0)
	case int64:
		return hashUint64(hashByte(h, 0x02), uint64(x))
	case float64:
		return hashUint64(hashByte(h, 0x03), floatKeyBits(x))
	case Date:
		return hashUint64(hashByte(h, 0x04), uint64(x))
	case string:
		h = hashUint32(hashByte(h, 0x05), uint32(len(x)))
		for i := 0; i < len(x); i++ {
			h = hashByte(h, x[i])
		}
		return h
	case Label:
		h = hashUint32(hashByte(h, 0x06), uint32(x.Site))
		return hashKey(h, x.Payload)
	case Tuple:
		h = hashUint32(hashByte(h, 0x07), uint32(len(x)))
		for _, e := range x {
			h = hashKey(h, e)
		}
		return h
	default:
		panic("value: bags and unknown types cannot be keys")
	}
}

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// hashUint64 folds x's big-endian bytes, as binary.BigEndian.AppendUint64
// lays them out.
func hashUint64(h, x uint64) uint64 {
	for s := 56; s >= 0; s -= 8 {
		h = hashByte(h, byte(x>>s))
	}
	return h
}

func hashUint32(h uint64, x uint32) uint64 {
	for s := 24; s >= 0; s -= 8 {
		h = hashByte(h, byte(x>>s))
	}
	return h
}
