package dataflow

// Analyses returns the number of Analyze calls so far, for the external
// tests.
func Analyses() int64 { return analyses.Load() }
