// Package churn simulates the paper's customer-churn study (Sec. 4.1.2,
// PAKDD 2012 data-mining-competition dataset): a synthetic telecom
// customer table with churn-correlated attributes, attribute-similarity
// graph induction, and Zhu–Ghahramani-style label propagation that turns
// churn affinity into the OI model's opinion parameter. The original
// dataset is proprietary; GenerateCustomers stands in for it.
package churn

import (
	"github.com/holisticim/holisticim/internal/rng"
)

// Customer is one profile row: billing, usage, service interactions and
// the churn label, mirroring the competition dataset's schema at a coarse
// grain.
type Customer struct {
	TenureMonths    float64 // months as a customer
	MonthlyBill     float64 // average bill
	UsageMinutes    float64 // voice usage
	DataUsageGB     float64 // data usage
	ServiceRequests float64 // support contacts in the last year
	Complaints      float64 // escalated complaints
	PaymentDelays   float64 // late payments
	Plan            int     // plan tier, 0..3
	Region          int     // service region, 0..5
	Churned         bool    // terminated service during the observation year
}

// CustomerOptions configures the generator.
type CustomerOptions struct {
	Customers int // rows to generate (paper works on a 34K balanced subset)
	// ChurnFraction is the fraction of churners (default 0.5 — the paper
	// balances the classes).
	ChurnFraction float64
	Seed          uint64
}

func (o *CustomerOptions) normalize() {
	if o.Customers <= 0 {
		o.Customers = 2000
	}
	if o.ChurnFraction <= 0 || o.ChurnFraction >= 1 {
		o.ChurnFraction = 0.5
	}
}

// GenerateCustomers samples a balanced customer table. A latent churn
// propensity drives both the label and the attributes (short tenure, many
// complaints, payment delays, shrinking usage), planting the "customers
// with similar attributes possess similar churn behavior" structure the
// paper's label-propagation hypothesis needs.
func GenerateCustomers(opts CustomerOptions) []Customer {
	opts.normalize()
	r := rng.New(opts.Seed)
	out := make([]Customer, opts.Customers)
	churners := int(float64(opts.Customers) * opts.ChurnFraction)
	for i := range out {
		churn := i < churners
		z := 0.0 // latent propensity: churners high, loyal low
		if churn {
			z = 0.8 + 0.4*r.NormFloat64()
		} else {
			z = -0.8 + 0.4*r.NormFloat64()
		}
		noise := func(scale float64) float64 { return scale * r.NormFloat64() }
		c := Customer{
			TenureMonths:    clampPos(48 - 30*z + noise(10)),
			MonthlyBill:     clampPos(55 + 10*z + noise(12)),
			UsageMinutes:    clampPos(420 - 180*z + noise(80)),
			DataUsageGB:     clampPos(9 - 4*z + noise(2.5)),
			ServiceRequests: clampPos(2.5 + 2.2*z + noise(1.0)),
			Complaints:      clampPos(1.0 + 1.4*z + noise(0.6)),
			PaymentDelays:   clampPos(1.2 + 1.5*z + noise(0.7)),
			Plan:            r.Intn(4),
			Region:          r.Intn(6),
			Churned:         churn,
		}
		out[i] = c
	}
	// Shuffle so labels are not position-coded.
	rng.Shuffle(r, out)
	return out
}

func clampPos(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// numericFeatures returns the row's numeric attributes in a fixed order
// for similarity computation.
func (c *Customer) numericFeatures() [7]float64 {
	return [7]float64{
		c.TenureMonths, c.MonthlyBill, c.UsageMinutes, c.DataUsageGB,
		c.ServiceRequests, c.Complaints, c.PaymentDelays,
	}
}

// Label returns the propagation label: −1 for churners, +1 for loyal
// customers (the paper's assignment).
func (c *Customer) Label() float64 {
	if c.Churned {
		return -1
	}
	return 1
}
