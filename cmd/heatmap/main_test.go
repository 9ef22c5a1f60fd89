package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsNonCoprimePermutations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-servers", "16", "-perms", "2"}, "heatmap: permutation 2 is not coprime with AllReduce group size 16\n"},
		{[]string{"-servers", "16", "-perms", "0"}, "heatmap: permutation 0 is not coprime with AllReduce group size 16\n"},
		{[]string{"-servers", "12", "-perms", "1,5,9"}, "heatmap: permutation 9 is not coprime with AllReduce group size 12\n"},
		{[]string{"-perms", "-1"}, "heatmap: bad permutation \"-1\"\n"},
		{[]string{"-servers", "0"}, "heatmap: need at least 1 server, got 0\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if stderr.String() != tc.want {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
		}
	}
}

func TestRunPrintsHeatmap(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "dlrm", "-servers", "16", "-perms", "1,3,7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if lines[0] != "DLRM, 16 servers, hybrid parallelism, rings [1 3 7]" {
		t.Errorf("header %q", lines[0])
	}
	// Header, volume line, column ruler, one row per server, scale.
	if len(lines) != 3+16+1 {
		t.Fatalf("%d lines, want 20:\n%s", len(lines), stdout.String())
	}
	// Server 0's heaviest cells are its +1, +3 and +7 ring successors.
	row := lines[3]
	if !strings.HasPrefix(row, "  0 ") || len(row) != 4+16 {
		t.Fatalf("row 0 %q", row)
	}
	for j := 1; j < 16; j++ {
		if heavy := row[4+j] == '@'; heavy != (j == 1 || j == 3 || j == 7) {
			t.Errorf("row 0 %q: column %d heavy=%t", row, j, heavy)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q", stderr.String())
	}
}

func TestRunFlagError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
