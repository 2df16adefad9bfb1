package ground

// Test helpers of this package, for the external test package: the
// tests that ground under the real quality.Checker live there, because
// quality imports ground.
var (
	RandomKB       = randomKB
	FactSet        = factSet
	FactorMultiset = factorMultiset
	FactorsEqual   = factorsEqual
)
