package normality

import "math"

// erfcPair returns math.Erfc(x) and math.Erfc(-x). On s390x math.Erfc
// is written in assembly, so the pure-Go pairing in erfc.go would not
// match it bit for bit; call it twice instead.
func erfcPair(x float64) (erfcX, erfcNegX float64) {
	return math.Erfc(x), math.Erfc(-x)
}
