"""End-to-end frame benchmark of the AGS SLAM system (see README.md)."""
