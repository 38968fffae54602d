package core

import (
	"testing"

	"repro/internal/measure"
)

// resultsFromLog rebuilds survey results from a measurement log the way
// cmd/report -log does.
func resultsFromLog(t testing.TB, s *Study, log *measure.Log) *Results {
	t.Helper()
	res, err := s.ResultsFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
