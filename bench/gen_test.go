package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The same seed must give the same inputs, a different seed different ones.
func TestInputsAreSeedDeterministic(t *testing.T) {
	if a, b := smallX(7, 1, 42), smallX(7, 1, 42); a != b {
		t.Errorf("smallX is not deterministic: %v, %v", a, b)
	}
	if smallX(7, 1, 42) == smallX(8, 1, 42) || smallX(7, 0, 42) == smallX(7, 1, 42) || smallX(7, 1, 42) == smallX(7, 1, 43) {
		t.Error("smallX collides across seeds, clients or operations")
	}
	if !reflect.DeepEqual(sweepAxis(7, 3), sweepAxis(7, 3)) || reflect.DeepEqual(sweepAxis(7, 3), sweepAxis(7, 4)) {
		t.Error("sweepAxis is not a function of (seed, sweep)")
	}
	if got := len(sweepAxis(7, 0)); got != sweepSize {
		t.Errorf("sweep axis has %d points, want %d", got, sweepSize)
	}

	draw := func(seed int64, client int) []float64 {
		rng := newRNG(seed, client)
		out := make([]float64, 64)
		for i := range out {
			out[i] = memoX(seed, rng)
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Error("memoX stream is not deterministic")
	}
	if reflect.DeepEqual(draw(7, 0), draw(7, 1)) || reflect.DeepEqual(draw(7, 0), draw(8, 0)) {
		t.Error("memoX stream does not depend on seed and client")
	}
	for _, x := range draw(7, 0) {
		if x < memoKey(7, 0) || x > memoKey(7, memoKeys-1) {
			t.Errorf("memoX drew %v outside the pre-populated working set", x)
		}
	}

	if !bytes.Equal(blobBase(7, 0), blobBase(7, 0)) || bytes.Equal(blobBase(7, 0), blobBase(8, 0)) || bytes.Equal(blobBase(7, 0), blobBase(7, 1)) {
		t.Error("blobBase is not a function of (seed, client)")
	}
	if got := len(blobBase(7, 0)); got != blobSize {
		t.Errorf("blob is %d bytes, want %d", got, blobSize)
	}
}

// Every value must survive JSON's float64 exactly, x+1 included.
func TestInputsAreExactInFloat64(t *testing.T) {
	const seed = 0xfffff // selects the largest base
	for _, x := range []float64{smallX(seed, 1, 1<<24-1), memoKey(seed, memoKeys-1), sweepAxis(seed, 1<<20)[sweepSize-1].(float64)} {
		if x >= 1<<53 || (x+1)-x != 1 {
			t.Errorf("input %v is not exact in float64", x)
		}
	}
}

func TestStampBlobMakesUploadsUnique(t *testing.T) {
	a, b := blobBase(7, 0), blobBase(7, 0)
	stampBlob(a, 7, 0, 1)
	stampBlob(b, 7, 0, 2)
	if bytes.Equal(a, b) {
		t.Error("two operations upload the same bytes")
	}
	if !bytes.Equal(a[16:], b[16:]) {
		t.Error("stampBlob touched more than the first 16 bytes")
	}
	stampBlob(b, 7, 0, 1)
	if !bytes.Equal(a, b) {
		t.Error("stampBlob is not deterministic")
	}
}
