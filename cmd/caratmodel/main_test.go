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
		"breakdown  false",
		"buffer float 0",
		"cpus int 1",
		"dbsize int 0",
		"json  false",
		"logdisk  false",
		"n int 8",
		"stripes int 1",
		"sweep  false",
		"think float 0",
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
