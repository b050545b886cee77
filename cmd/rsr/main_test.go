package main

import (
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestScaleValidation: a -scale that is not positive and finite must be
// rejected with exit status 2 before any simulation starts, since
// experiments.Config.Total would otherwise turn it into the full 20M
// instructions (0, negatives) or an undefined length (NaN, ±Inf).
func TestScaleValidation(t *testing.T) {
	if v, ok := os.LookupEnv("RSR_TEST_SCALE"); ok {
		// Child process: run the CLI with this -scale.
		os.Args = []string{"rsr", "-scale", v, "list"}
		main()
		return
	}
	for _, tc := range []struct {
		arg string
		ok  bool
	}{
		{"1", true},
		{"0.05", true},
		{"1e-3", true},
		{"0", false},
		{"-0", false},
		{"-1", false},
		{"NaN", false},
		{"+Inf", false},
		{"-Inf", false},
	} {
		s, err := strconv.ParseFloat(tc.arg, 64) // as the flag package parses it
		if err != nil {
			t.Fatal(err)
		}
		if err := checkScale(s); (err == nil) != tc.ok {
			t.Errorf("checkScale(%s) = %v, want ok=%v", tc.arg, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		// The rejection happens at the CLI surface, before the lab is built:
		// `list` would otherwise succeed without simulating anything.
		cmd := exec.Command(os.Args[0], "-test.run=^TestScaleValidation$")
		cmd.Env = append(os.Environ(), "RSR_TEST_SCALE="+tc.arg)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("rsr -scale %s list: err = %v, want exit status 2\n%s", tc.arg, err, out)
		}
		if !strings.Contains(string(out), "must be a positive, finite number") {
			t.Errorf("rsr -scale %s list: output lacks the reason:\n%s", tc.arg, out)
		}
	}
}
