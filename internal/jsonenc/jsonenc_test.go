package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// checkFloat compares AppendFloat with encoding/json on one float64 bit
// pattern and on its low word as a float32: same bytes, or both an error.
func checkFloat(t *testing.T, bits uint64) {
	t.Helper()
	f64 := math.Float64frombits(bits)
	want, wantErr := json.Marshal(f64)
	got, err := AppendFloat([]byte("x"), f64, 64)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("float64 %#x: AppendFloat err %v, json.Marshal err %v", bits, err, wantErr)
	}
	if err == nil && string(got) != "x"+string(want) {
		t.Fatalf("float64 %#x: got %q, json.Marshal %q", bits, got[1:], want)
	}
	f32 := math.Float32frombits(uint32(bits))
	want, wantErr = json.Marshal(f32)
	got, err = AppendFloat(nil, float64(f32), 32)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("float32 %#x: AppendFloat err %v, json.Marshal err %v", uint32(bits), err, wantErr)
	}
	if err == nil && string(got) != string(want) {
		t.Fatalf("float32 %#x: got %q, json.Marshal %q", uint32(bits), got, want)
	}
}

// floatSeeds are the values where encoding/json's rule has an edge: the
// 'f'/'e' cutoffs on both sides at both widths, one- two- and three-digit
// exponents, signed zeros, denormals, extremes, and the unsupported three.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.2, 116.397, 39.9087, 1234.5678,
	1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 1e21, 9.99999999999e20, 1.2e22, 1e100, -1e-7, -1e21,
	float64(float32(1e-6)), float64(float32(1e21)), float64(float32(9.9e-7)),
	math.SmallestNonzeroFloat64, math.MaxFloat64,
	math.SmallestNonzeroFloat32, math.MaxFloat32,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range floatSeeds {
		checkFloat(t, math.Float64bits(f))
		// The same value as the float32 half of the check.
		checkFloat(t, uint64(math.Float32bits(float32(f))))
	}
	// A deterministic sweep of bit patterns (an LCG), so the plain test
	// run covers more than the hand-picked edges.
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 200000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		checkFloat(t, x)
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range floatSeeds {
		f.Add(math.Float64bits(v))
		f.Add(uint64(math.Float32bits(float32(v))))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkFloat(t, bits) })
}
