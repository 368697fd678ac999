type kind = On_demand | Spot | Old_gen

type t = {
  name : string;
  kind : kind;
  hourly_cost : float;
  fault_probability : float;
  carbon_kg_per_hour : float;
}

let default_catalog =
  [
    {
      name = "premium";
      kind = On_demand;
      hourly_cost = 0.50;
      fault_probability = 0.01;
      carbon_kg_per_hour = 0.060;
    };
    {
      name = "standard";
      kind = On_demand;
      hourly_cost = 0.25;
      fault_probability = 0.02;
      carbon_kg_per_hour = 0.055;
    };
    {
      name = "old-gen";
      kind = Old_gen;
      hourly_cost = 0.10;
      fault_probability = 0.04;
      carbon_kg_per_hour = 0.035;
    };
    {
      name = "spot";
      kind = Spot;
      hourly_cost = 0.05;
      fault_probability = 0.08;
      carbon_kg_per_hour = 0.050;
    };
  ]


let cluster_hourly_cost t n = t.hourly_cost *. float_of_int n

let hours_per_year = 8766.

let cluster_annual_carbon t n = t.carbon_kg_per_hour *. float_of_int n *. hours_per_year

let pp fmt t =
  Format.fprintf fmt "%s ($%.2f/h, p=%g, %.3f kgCO2e/h)" t.name t.hourly_cost
    t.fault_probability t.carbon_kg_per_hour
