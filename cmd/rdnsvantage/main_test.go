package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdnsprivacy/internal/vantage"
)

// TestRunJSONReport runs a two-day campaign with the command's default
// fleet and requires -json output that decodes into a two-day report over
// the three vantages.
func TestRunJSONReport(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-days", "2", "-filler", "10", "-workers", "2", "-json"}, &out, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	var rep vantage.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out.Bytes())
	}
	if len(rep.Days) != 2 || len(rep.Vantages) != 3 {
		t.Fatalf("report has %d days over %d vantages, want 2 over 3", len(rep.Days), len(rep.Vantages))
	}
}

// TestRunKeepsStoresAndJudges: -store keeps one store per vantage, and a
// corroboration floor no campaign can meet with no budget exits 1 after
// the dashboard and its SLO summary.
func TestRunKeepsStoresAndJudges(t *testing.T) {
	dir := t.TempDir()
	var out, stderr bytes.Buffer
	code := run(t.Context(), []string{"-days", "2", "-filler", "10", "-workers", "2", "-store", dir,
		"-min-corroboration", "1.01"}, &out, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "corroboration SLO budget exceeded") {
		t.Fatalf("exit %d, want 1 on the SLO:\n%s", code, stderr.String())
	}
	for _, want := range []string{"stores kept at " + dir, "SLO: min corroboration 1.01"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dashboard lacks %q:\n%s", want, out.String())
		}
	}
	for _, v := range []string{"alpha", "bravo", "charlie"} {
		if _, err := os.Stat(filepath.Join(dir, v)); err != nil {
			t.Errorf("store of %s: %v", v, err)
		}
	}
}

// TestRunUsage: -h exits 0; an unknown flag or a campaign of no days
// exits 2.
func TestRunUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nope"}, 2},
		{[]string{"-days", "0"}, 2},
		{[]string{"-days", "ten"}, 2},
	} {
		var stderr bytes.Buffer
		if code := run(t.Context(), c.args, io.Discard, &stderr); code != c.code {
			t.Errorf("rdnsvantage %q exited %d, want %d:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}
