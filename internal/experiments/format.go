package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// The formatting helpers render experiment rows as aligned text tables whose
// columns match the rows and series the paper reports. They are shared by
// cmd/tcbench and by the examples.

// WriteTable2 renders Table 2 rows.
func WriteTable2(w io.Writer, rows []Table2Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\t#Vertices\t#Edges\t#Transactions\t#Items(total)\t#Items(unique)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Dataset, r.Vertices, r.Edges, r.Transactions, r.ItemsTotal, r.ItemsUnique)
	}
	return tw.Flush()
}

// WriteFigure3 renders Figure 3 rows grouped by dataset and method.
func WriteFigure3(w io.Writer, rows []Figure3Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tMethod\tα\tTime(s)\tNP\tNV\tNE\tMPTD calls")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4f\t%d\t%d\t%d\t%d\n",
			r.Dataset, r.Method, r.Alpha, r.TimeSeconds, r.NP, r.NV, r.NE, r.MPTDCalls)
	}
	return tw.Flush()
}

// WriteFigure4 renders Figure 4 rows.
func WriteFigure4(w io.Writer, rows []Figure4Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tMethod\t#SampledEdges\tTime(s)\tNP\tNV/NP\tNE/NP")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\t%d\t%.2f\t%.2f\n",
			r.Dataset, r.Method, r.SampledEdges, r.TimeSeconds, r.NP, r.NVPerNP, r.NEPerNP)
	}
	return tw.Flush()
}

// WriteTable3 renders Table 3 rows.
func WriteTable3(w io.Writer, rows []Table3Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tIndexing Time(s)\tMemory(MB)\tIndex(MB)\t#Nodes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t%.1f\t%d\n", r.Dataset, r.IndexingSeconds, r.MemoryMB, r.IndexMB, r.Nodes)
	}
	return tw.Flush()
}

// WriteFigure5 renders Figure 5 rows (both QBA and QBP workloads).
func WriteFigure5(w io.Writer, rows []Figure5Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tWorkload\tα_q\tPatternLen\tQueryTime(s)\tRetrievedNodes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%d\t%.6f\t%d\n",
			r.Dataset, r.Workload, r.AlphaQ, r.PatternLength, r.QuerySeconds, r.RetrievedNodes)
	}
	return tw.Flush()
}

// WriteCaseStudy renders the case-study communities in the style of Table 4
// and Figure 6.
func WriteCaseStudy(w io.Writer, comms []CaseStudyCommunity) error {
	for i, c := range comms {
		if _, err := fmt.Fprintf(w, "p%d: %s\n    authors: %s\n",
			i+1, strings.Join(c.Theme, ", "), strings.Join(c.Authors, ", ")); err != nil {
			return err
		}
	}
	return nil
}
