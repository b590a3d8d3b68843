package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// checkGolden checks that every blank-line-separated block of out whose
// first line starts with one of titles appears verbatim in the golden
// transcript testdata/full_results.txt, and that each title was found.
func checkGolden(repo string, out []byte, titles []string) error {
	golden, err := os.ReadFile(filepath.Join(repo, "testdata", "full_results.txt"))
	if err != nil {
		return err
	}
	found := map[string]bool{}
	for _, block := range strings.Split(string(out), "\n\n") {
		for _, t := range titles {
			if strings.HasPrefix(block, t) {
				found[t] = true
				if !bytes.Contains(golden, []byte(block)) {
					return mismatch("section %q differs from testdata/full_results.txt", t)
				}
			}
		}
	}
	for _, t := range titles {
		if !found[t] {
			return mismatch("section %q missing from the output", t)
		}
	}
	return nil
}

// decodeExperiments splits iramsim -json output into each experiment's
// raw result.
func decodeExperiments(out []byte) (map[string]json.RawMessage, error) {
	res := map[string]json.RawMessage{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var doc struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		err := dec.Decode(&doc)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decoding -json output: %w", err)
		}
		res[doc.Experiment] = doc.Result
	}
}

// cpiErrPct is the mean absolute percentage error of a CPI table's
// measured TotalCPI against the paper-published PaperTotalCPI.
func cpiErrPct(raw json.RawMessage) (float64, int, error) {
	var tab struct {
		Rows []struct {
			TotalCPI, PaperTotalCPI float64
		}
	}
	if err := json.Unmarshal(raw, &tab); err != nil {
		return 0, 0, err
	}
	var s float64
	n := 0
	for _, row := range tab.Rows {
		if row.PaperTotalCPI <= 0 {
			continue
		}
		d := (row.TotalCPI - row.PaperTotalCPI) / row.PaperTotalCPI
		if d < 0 {
			d = -d
		}
		s += 100 * d
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("CPI table has no paper reference rows")
	}
	return s / float64(n), n, nil
}
