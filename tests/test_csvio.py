"""The exact bytes of the BER, PEP and ratio curve CSV files."""

import math

from mlnsim.pep import PepEstimate, RatioPoint, pep_curve_to_csv, ratio_curve_from_csv, ratio_curve_to_csv
from mlnsim.simulate import BerCurve, BerPoint


def test_ber_curve_bytes():
    curve = BerCurve((
        BerPoint(0.0, 0.1, 0.05, 0.2, 5, 100),
        BerPoint(2.5, 1e-300, 0.0, 3e-05, 0, 2_000_000),
    ))
    assert curve.to_csv() == (
        "snr_db,ber,ci_low,ci_high,error_events,trials\n"
        "0.0,0.1,0.05,0.2,5,100\n"
        "2.5,1e-300,0.0,3e-05,0,2000000\n"
    )


def test_pep_curve_bytes():
    estimates = [
        PepEstimate(-5.0, 0.1, 1e-300, 1000, "eigen-product-mc"),
        PepEstimate(10.0, 0.30000000000000004, 0.0, 7, "q-function-mc"),
    ]
    assert pep_curve_to_csv(estimates) == (
        "snr_db,value,std_error,trials,method\n"
        "-5.0,0.1,1e-300,1000,eigen-product-mc\n"
        "10.0,0.30000000000000004,0.0,7,q-function-mc\n"
    )


def test_ratio_curve_bytes_with_censored_point():
    points = [RatioPoint(10.0, 0.1, 1e-300), RatioPoint(20.0, math.nan, math.nan, censored=True)]
    text = ratio_curve_to_csv(points)
    assert text == "snr_db,ratio,std_error,censored\n10.0,0.1,1e-300,0\n20.0,nan,nan,1\n"
    again = ratio_curve_from_csv(text)
    assert again[1].censored and math.isnan(again[1].ratio) and again[0] == points[0]
