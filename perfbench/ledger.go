package main

import (
	"reflect"
	"sort"

	"arckfs/internal/costmodel"
)

// ledgerTerm prices one costmodel primitive from the telemetry counters
// that count it exactly.
type ledgerTerm struct {
	field  string // costmodel.Model field holding the price
	metric string // model.<metric>_ns_per_op
	units  func(d map[string]int64) float64
}

// ledgerTerms maps each priced primitive to its counter. Device.Write and
// Device.Zero charge PMWriteNS per 64 B line of each call, while the
// device counts plain-store bytes rather than charged lines, so the
// pmwrite term prices the plain-store volume (all bytes not written by
// streaming stores) in 64 B lines; it is the only term not priced from
// an exact count of the charged unit.
var ledgerTerms = []ledgerTerm{
	{"SyscallNS", "syscall", count("kernel.syscalls")},
	{"FlushNS", "flush", count("pmem.flushes")},
	{"FenceNS", "fence", count("pmem.fences")},
	{"PMWriteNS", "pmwrite", func(d map[string]int64) float64 {
		return float64(d["pmem.bytes"]-64*d["pmem.ntstores"]) / 64
	}},
	{"NTStoreNS", "ntstore", count("pmem.ntstores")},
	{"VerifyDentryNS", "verify_dentry", count("verifier.dentries")},
	{"VerifyPageNS", "verify_page", count("verifier.pages")},
	{"NUMARemoteNS", "numa_remote", count("pmalloc.steals.remote")},
}

func count(name string) func(map[string]int64) float64 {
	return func(d map[string]int64) float64 { return float64(d[name]) }
}

// ledger is the modeled hardware time per op: each term is a counter
// delta times the price costmodel.Default() sets for it. Nothing here
// is spun or measured in time.
type ledger struct {
	terms      map[string]float64 // metric -> ns/op
	totalUS    float64
	unmeasured []string // priced primitives no counter counts
}

func buildLedger(delta map[string]int64, ops int64) ledger {
	price := reflect.ValueOf(*costmodel.Default())
	l := ledger{terms: map[string]float64{}}
	mapped := map[string]bool{}
	for _, t := range ledgerTerms {
		mapped[t.field] = true
		ns := float64(price.FieldByName(t.field).Int()) * t.units(delta) / float64(ops)
		l.terms[t.metric] = ns
		l.totalUS += ns / 1e3
	}
	typ := price.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !mapped[f.Name] {
			l.unmeasured = append(l.unmeasured, f.Name)
		}
	}
	sort.Strings(l.unmeasured)
	return l
}
