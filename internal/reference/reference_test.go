package reference

import (
	"reflect"
	"testing"

	"repro/internal/replica"
)

// TestWithKeepsEveryArm: each arm set on either side survives With, so a
// field added to Arms but left out of With fails here.
func TestWithKeepsEveryArm(t *testing.T) {
	fields := reflect.TypeOf(Arms{}).NumField()
	for i := 0; i < fields; i++ {
		var one Arms
		switch f := reflect.ValueOf(&one).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(int64(replica.RuleNaive))
		default:
			t.Fatalf("%s: With has no merge for a %v field", reflect.TypeOf(one).Field(i).Name, f.Kind())
		}
		for _, b := range [][2]Arms{{one, {}}, {{}, one}} {
			got, err := b[0].With(b[1])
			if err != nil || got != one {
				t.Errorf("%s: With gave %+v, %v; want %+v", reflect.TypeOf(one).Field(i).Name, got, err, one)
			}
		}
	}
}
