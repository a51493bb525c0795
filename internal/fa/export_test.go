package fa

import "repro/internal/trace"

// OracleEnumerate exposes the reference Enumerate to the external test
// package, whose tests reach the specs corpus (specs imports fa).
func OracleEnumerate(f *FA, maxLen, limit int) []trace.Trace {
	return f.oracleEnumerate(maxLen, limit)
}
