package core

// Test fixtures shared with the external test package (core_test), which can
// import internal/verify where this package cannot.
var (
	PiecewiseRelation = piecewiseRelation
	DiscoverCfg       = discoverCfg
)
