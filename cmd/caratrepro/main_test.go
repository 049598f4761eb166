package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins the tool's flags — names, types and defaults — so that
// none appears, disappears or changes unnoticed.
func TestFlagSet(t *testing.T) {
	want := []string{
		"format string text",
		"minutes float 60",
		"only string ",
		"reps int 1",
		"seed uint 1",
		"workers int 0",
	}
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the testing package's own flags
		}
		typ, _ := flag.UnquoteUsage(f)
		got = append(got, strings.Join([]string{f.Name, typ, f.DefValue}, " "))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %q\nwant %q", got, want)
	}
}
