package verify

// Internal helpers the external test package (verify_test) exercises; it is
// external so that it can import internal/experiments, which imports verify.
var (
	BaseConfig   = baseConfig
	DiffRuleSets = diffRuleSets
	XScale       = xScale
	DriftBound   = driftBound
)
