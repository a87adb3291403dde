"""Survey drivers and reporting utilities for the paper's figures."""

from .policy_survey import CostQualityEvaluator, PolicySurveyResult, run_policy_survey
from .reporting import (BoxStats, ascii_bar_chart, ascii_cdf, box_stats, cdf_at,
                        empirical_cdf, format_table, write_csv)
from .survey import (MemoryRecordSink, PairCategory, PairRecord, RecordBlock, RecordSink,
                     SpillingRecordSink, SurveyResult, WindowedPairSummary,
                     run_survey, run_windowed_survey)

__all__ = [
    "run_survey", "SurveyResult", "PairRecord", "PairCategory",
    "RecordBlock", "RecordSink", "MemoryRecordSink", "SpillingRecordSink",
    "run_windowed_survey", "WindowedPairSummary",
    "run_policy_survey", "PolicySurveyResult", "CostQualityEvaluator",
    "empirical_cdf", "cdf_at", "BoxStats", "box_stats",
    "format_table", "ascii_bar_chart", "ascii_cdf", "write_csv",
]
