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
		"cc string 2PL",
		"dbsize int 0",
		"faults string ",
		"graysites string ",
		"lambda float 1",
		"locality float 0.9",
		"n int 8",
		"open  false",
		"partition string ",
		"placement string ",
		"resilience string ",
		"seconds float 30",
		"seed uint 1",
		"sites int 16",
		"txn int 0",
		"workload string MB4",
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
