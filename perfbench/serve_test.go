package main

import (
	"math"
	"testing"
)

func TestLoadWalk(t *testing.T) {
	rec := &loadRecord{replies: []reply{
		{entry: 0, lat: 1}, {entry: 0, lat: 3}, {entry: 0, lat: 2},
		{entry: 1, lat: 10}, {entry: 1, lat: 20},
	}}
	if got := rec.walk(2); got != 2+15 {
		t.Errorf("walk = %v, want the sum of the entries' medians, 17", got)
	}
	if got := rec.walk(3); !math.IsInf(got, 1) {
		t.Errorf("walk with an unanswered entry = %v, want +Inf", got)
	}
}
