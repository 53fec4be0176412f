package main

import (
	"encoding/binary"
	"math/rand"
)

// Everything the servers see is derived from the seed here: the same seed
// gives the same inputs, whatever the speed of the run.

const (
	memoKeys  = 1024 // working set of memo_resubmit; fits the 4096-entry cache
	sweepSize = 1000
	blobSize  = 1 << 20
)

// seedBase spreads seeds over disjoint input ranges.  Values stay far below
// 2^53, so x and x+1 are exact in the float64 JSON numbers carry.
func seedBase(seed int64) int64 {
	return (seed & 0xfffff) << 28
}

// smallX is the input of the i-th operation of a client: unique per
// (client, i), so no two submissions of a run are equal.
func smallX(seed int64, client, i int) float64 {
	return float64(seedBase(seed) + int64(client)<<24 + int64(i))
}

// memoX draws one of the memoKeys resubmitted inputs uniformly.
func memoX(seed int64, rng *rand.Rand) float64 {
	return memoKey(seed, rng.Intn(memoKeys))
}

// memoKey is the k-th input of the memo working set.
func memoKey(seed int64, k int) float64 {
	return float64(seedBase(seed) + int64(k))
}

// sweepAxis is the x axis of the i-th sweep of a run.
func sweepAxis(seed int64, i int) []any {
	axis := make([]any, sweepSize)
	first := seedBase(seed) + int64(i)*sweepSize
	for k := range axis {
		axis[k] = float64(first + int64(k))
	}
	return axis
}

// newRNG returns the random stream of one client.
func newRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)))
}

// blobBase fills the 1 MiB block all uploads of a client derive from.
func blobBase(seed int64, client int) []byte {
	buf := make([]byte, blobSize)
	newRNG(seed^0x626c6f62, client).Read(buf)
	return buf
}

// stampBlob makes the block unique for operation i by overwriting its first
// 16 bytes, so the file store can never deduplicate one upload against
// another.
func stampBlob(buf []byte, seed int64, client, i int) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(seed))
	binary.BigEndian.PutUint32(buf[8:12], uint32(client))
	binary.BigEndian.PutUint32(buf[12:16], uint32(i))
}
