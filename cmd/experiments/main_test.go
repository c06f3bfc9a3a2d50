package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFigure1Mode writes the Figure 1 CSV to stdout (-o -), the one
// output path the trajectory tests below leave out.
func TestRunFigure1Mode(t *testing.T) {
	capture, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer capture.Close()
	stdout := os.Stdout
	os.Stdout = capture
	err = runFigure1(30, 3, 300, 1, "-", false)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(capture.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d CSV lines on stdout", len(lines))
	}
	if !strings.HasPrefix(lines[0], "iteration,born,distance") {
		t.Errorf("bad header %q", lines[0])
	}
}

func TestTrajectoryRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fig1.csv")
	if err := runFigure1(30, 3, 400, 1, out, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "iteration,born,distance") {
		t.Errorf("bad header %q", lines[0])
	}
}

func TestTrajectoryRunWithPlot(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fig1.csv")
	if err := runFigure1(30, 3, 300, 2, out, true); err != nil {
		t.Fatal(err)
	}
}

// TestTrajectoryZeroIterationRun pins the degenerate budgets: a
// one-evaluation run stops after construction — the CSV still carries the
// header and the construction point, and the ASCII plot renders the
// near-empty trajectory without panicking — while a zero budget is a
// clean validation error, not a crash.
func TestTrajectoryZeroIterationRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tiny.csv")
	if err := runFigure1(30, 3, 1, 1, out, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.HasPrefix(lines[0], "iteration,born,distance") {
		t.Errorf("bad header %q", lines[0])
	}
	if len(lines) < 2 {
		t.Errorf("one-evaluation run wrote no trajectory points: %q", lines)
	}

	if err := runFigure1(30, 3, 0, 1, filepath.Join(dir, "zero.csv"), false); err == nil {
		t.Error("zero-evaluation budget did not report a validation error")
	} else if !strings.Contains(err.Error(), "MaxEvaluations") {
		t.Errorf("unexpected zero-budget error: %v", err)
	}
}

func TestRunSingleTableQuick(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "res.md")
	if err := run("I", "quick", 3, md, true, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "### Table I") {
		t.Error("markdown output missing table header")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("V", "quick", 1, "", true, false); err == nil {
		t.Error("unknown table accepted")
	}
	if err := run("I", "galactic", 1, "", true, false); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := runExtra("nope", 1); err == nil {
		t.Error("unknown extra experiment accepted")
	}
}
