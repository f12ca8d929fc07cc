package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"rdnsprivacy/internal/vantage"
)

// TestRunJSONReport runs a two-day campaign with the command's default
// fleet and requires -json output that decodes into a two-day report over
// the three vantages.
func TestRunJSONReport(t *testing.T) {
	var out bytes.Buffer
	err := run(t.Context(), &out, campaignFlags{
		seed: 42, days: 2, loss: 0.05, servfail: 0.02, retries: 2,
		lagRate: 0.3, lagDays: 1, lagWindow: 1, filler: 10, workers: 2,
		compactEvery: 4, jsonOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep vantage.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out.Bytes())
	}
	if len(rep.Days) != 2 || len(rep.Vantages) != 3 {
		t.Fatalf("report has %d days over %d vantages, want 2 over 3", len(rep.Days), len(rep.Vantages))
	}
}
