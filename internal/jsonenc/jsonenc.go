// Package jsonenc holds the one piece of encoding/json the append-based
// encoders have to reproduce rather than call: its float formatting.
// serve's default reply formats its probabilities per reply; the facade's
// GeoJSON formats each segment's coordinates and length once per system,
// into the feature table Region.AppendGeoJSON copies from.
package jsonenc

import (
	"fmt"
	"math"
	"strconv"
)

// AppendFloat appends f exactly as encoding/json marshals a float of the
// given bit size (64, or 32 for a value held as float32): the shortest
// representation that round-trips, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, where it is 'e' form with a two-digit
// exponent's leading zero dropped (1e-07 → 1e-7). At bit size 32 the
// cutoffs are compared as float32, as encoding/json does. NaN and the
// infinities have no JSON form and are an error.
func AppendFloat(dst []byte, f float64, bitSize int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, bitSize))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bitSize == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bitSize == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bitSize)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
