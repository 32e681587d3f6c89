package stats

import "math"

// NormalCDF returns Phi(x), the standard normal cumulative distribution
// function, computed via the complementary error function for accuracy in
// both tails.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Phi^-1(p) for p in (0, 1): the inverse of the
// standard normal CDF. It uses Acklam's rational approximation followed by
// one Halley refinement step, giving full double precision over the whole
// open interval. It returns ±Inf at p = 0 or 1 and NaN outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow = 0.02425

	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One step of Halley's method against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ChiSquaredSF returns the survival function P(X >= x) of a chi-squared
// distribution with k degrees of freedom, via the regularised upper
// incomplete gamma function. Used to turn the D'Agostino K² statistic into
// a p-value (k = 2).
func ChiSquaredSF(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	return regularizedGammaQ(float64(k)/2, x/2)
}

// regularizedGammaQ computes Q(a, x) = Gamma(a, x)/Gamma(a), the upper
// regularised incomplete gamma function, using the series for x < a+1 and
// a continued fraction otherwise (Numerical Recipes construction).
func regularizedGammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - regularizedGammaPSeries(a, x)
	}
	return regularizedGammaQCF(a, x)
}

func regularizedGammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 1000; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func regularizedGammaQCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
