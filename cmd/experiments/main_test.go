package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestConfigForScale(t *testing.T) {
	for _, scale := range []string{"tiny", "small", "full"} {
		cfg, err := configForScale(scale, 7)
		if err != nil {
			t.Fatalf("%s: %v", scale, err)
		}
		if cfg.Seed != 7 {
			t.Fatalf("%s: seed = %d", scale, cfg.Seed)
		}
	}
	tiny, _ := configForScale("tiny", 1)
	small, _ := configForScale("small", 1)
	if tiny.Universe.FillerSlash24s >= small.Universe.FillerSlash24s {
		t.Fatal("tiny not smaller than small")
	}
	if _, err := configForScale("galactic", 1); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunUsage: -h exits 0; an unknown flag, scale or experiment exits 2;
// a summary of a file that is not there exits 1.
func TestRunUsage(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nope"}, 2},
		{[]string{"-scale", "galactic"}, 2},
		{[]string{"-scale", "tiny", "-exp", "fig99"}, 2},
		{[]string{"-trace", missing}, 1},
		{[]string{"-obs", missing}, 1},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), c.args, io.Discard, &stderr); code != c.code {
			t.Errorf("experiments %q exited %d, want %d:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}

// TestRunValidation runs one experiment through run at tiny scale with its
// telemetry on: the Section 4.1 validation finds the campus's 40 dynamic
// /24s exactly, and the span log and frame series are written.
func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-scale", "tiny", "-exp", "validation", "-metrics-addr", "127.0.0.1:0",
		"-trace-out", filepath.Join(dir, "spans.jsonl"), "-obs-out", filepath.Join(dir, "frames.jsonl")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	for _, want := range []string{`Building tiny-scale universe \(seed 42\)`, `true positives\s+40\s`, `false positives\s+0\s`, `false negatives\s+0\s`} {
		if !regexp.MustCompile(want).MatchString(stdout.String()) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
	for _, want := range []string{"telemetry: http://", "trace: wrote", "obs: wrote"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}
