package main

import (
	"math"
	"testing"
)

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		won, lost int
		want      float64
	}{
		{10, 0, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{8, 2, 2 * 56.0 / 1024},
		{9, 1, 2 * 11.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
	} {
		if got := signTest(c.won, c.lost); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.won, c.lost, got, c.want)
		}
	}
}

func TestParseLine(t *testing.T) {
	out := []byte("noise\n{\"attempted\":85,\"correct\":true,\"failed\":1,\"metrics\":{\"query_p50_ms\":{\"value\":157.5,\"unit\":\"ms\"}}}\n\n")
	res, err := parseLine(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 85 || res.Failed != 1 || res.Metrics["query_p50_ms"] != 157.5 {
		t.Fatalf("parsed %+v", res)
	}
	if _, err := parseLine([]byte("\n")); err == nil {
		t.Fatal("an empty output parsed")
	}
}
