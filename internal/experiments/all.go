package experiments

// All is every table and figure the lab reproduces, by id, in the order
// cmd/senseibench prints them. Run returns the rendered artifact.
var All = []struct {
	ID  string
	Run func(*Lab) (string, error)
}{
	{"table1", func(l *Lab) (string, error) { return l.Table1().Render(), nil }},
	{"fig1", func(l *Lab) (string, error) { return rendered(l.Fig1()) }},
	{"fig2", func(l *Lab) (string, error) { return rendered(l.Fig2()) }},
	{"fig3", func(l *Lab) (string, error) { return rendered(l.Fig3()) }},
	{"fig4", func(l *Lab) (string, error) { return rendered(l.Fig4()) }},
	{"fig5", func(l *Lab) (string, error) { return rendered(l.Fig5()) }},
	{"fig6", func(l *Lab) (string, error) { return rendered(l.Fig6()) }},
	{"fig12a", func(l *Lab) (string, error) { return rendered(l.Fig12a()) }},
	{"fig12b", func(l *Lab) (string, error) { return rendered(l.Fig12b()) }},
	{"fig12c", func(l *Lab) (string, error) { return rendered(l.Fig12c()) }},
	{"fig13", func(l *Lab) (string, error) { return rendered(l.Fig13()) }},
	{"fig14", func(l *Lab) (string, error) { return rendered(l.Fig14()) }},
	{"fig15", func(l *Lab) (string, error) { return rendered(l.Fig15()) }},
	{"fig16", func(l *Lab) (string, error) { return rendered(l.Fig16()) }},
	{"fig17", func(l *Lab) (string, error) { return rendered(l.Fig17()) }},
	{"fig18", func(l *Lab) (string, error) { return rendered(l.Fig18()) }},
	{"fig20", func(l *Lab) (string, error) { return rendered(l.Fig20()) }},
	{"sanity", func(l *Lab) (string, error) { return rendered(l.Sanity()) }},
	{"appendixb", func(l *Lab) (string, error) { return rendered(l.AppendixB()) }},
}

// rendered renders an experiment's result unless it failed.
func rendered[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
