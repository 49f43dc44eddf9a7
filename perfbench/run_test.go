package main

import "testing"

func TestCoveredUsCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{StartUs: 10, EndUs: 20},
		{StartUs: 0, EndUs: 5},
		{StartUs: 15, EndUs: 30}, // overlaps the first
		{StartUs: 22, EndUs: 25}, // inside the third
		{StartUs: 40, EndUs: 41},
	}
	if got := coveredUs(spans); got != 5+20+1 {
		t.Errorf("covered %d us, want 26", got)
	}
}
