package core

import (
	"reflect"
	"slices"
	"testing"
)

// peMethods is *PE's exported method set. Programs reach global memory
// through an Array; the raw-address forms left here are the error forms and
// the three panicking range forms the benchmark module's op-load driver
// calls. A method added to or removed from PE changes this list in the same
// commit, so no retired spelling comes back unnoticed.
var peMethods = []string{
	"AllReduceMax", "AllReduceSum", "Alloc", "AllocBlocks", "AllocMode", "Barrier",
	"BarrierID", "BeginJob", "CASErr", "Checkpoint", "CloseJob", "Compute",
	"EndJob", "FetchAddErr", "GMGather", "GMGatherErr", "GMReadBlock", "GMReadBlockErr",
	"GMReadErr", "GMScatterErr", "GMWriteBlock", "GMWriteBlockErr", "GMWriteErr", "HomeOf",
	"Hostname", "ID", "Join", "Leave", "Lock", "Members",
	"MigrateRange", "N", "Now", "OpenJob", "PingErr", "Processes",
	"RecvMsg", "RecvMsgTimeout", "RegisterCheckpoint", "SendMsg", "Space", "Unlock",
	"ViewGeneration",
}

func TestPEMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*PE)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, peMethods) {
		t.Errorf("*PE exports %d methods, the committed list %d:\n got %v\nwant %v", len(got), len(peMethods), got, peMethods)
	}
}
