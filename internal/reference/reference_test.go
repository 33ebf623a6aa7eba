package reference

import (
	"reflect"
	"testing"
)

// TestWithKeepsEveryArm: each arm set on either side survives With, so a
// field added to Arms but left out of With fails here.
func TestWithKeepsEveryArm(t *testing.T) {
	fields := reflect.TypeOf(Arms{}).NumField()
	for i := 0; i < fields; i++ {
		var one Arms
		reflect.ValueOf(&one).Elem().Field(i).SetBool(true)
		for _, got := range []Arms{one.With(Arms{}), (Arms{}).With(one)} {
			if got != one {
				t.Errorf("%s: With gave %+v, want %+v", reflect.TypeOf(one).Field(i).Name, got, one)
			}
		}
	}
}
